"""Fused ops: one Tensor node and one hand-derived backward closure each.

The encoder runs as three fused sublayers, `attention`, `add_norm` (residual,
dropout and layer norm) and `feed_forward`, a gate's mixing of expert rows
as one more, `gate_mix`, and the loss as `cross_entropy`, so a training step
builds a few graph nodes instead of one per primitive. The closures apply
reverse mode by hand (Griewank & Walther, *Evaluating Derivatives*, SIAM
2008), with the softmax-attention derivatives of Vaswani et al. 2017 and
the layer-norm derivative of Ba et al. 2016. The softmax and its backward
are written once, as the in-place array helpers `softmax_rows` and
`softmax_rows_backward`, which attention, gate mixing and the library's
inference probabilities all call.

Forward products stay stacked, (B, T, d) @ (d, e): numpy runs one GEMM per
leading row, so a row's output does not depend on how many rows share the
call (the blocked eval encoder relies on this). The ops also take E stacked
experts' parameters, (E, 1, d, e) weights and (E, 1, 1, d) vectors, which
broadcast against the rows: (B, T, d) tokens then give (E, B, T, ...)
outputs through the same per-row GEMMs, so each expert's slice is bitwise
its own pass. Backward products flatten the tokens to 2-D (B*T, d) GEMMs,
one per expert for stacked parameters (a batched product over the expert
axis, bitwise each expert's own). An input the experts share is a
constant: it takes no gradient. Each closure forms gradients only for
parents whose `requires_grad` is set. Forward and backward each allocate a
few buffers per call and work in them in place (`out=`, `*=`); a closure
reads but never overwrites the forward buffers, so it may run twice.

Loss contract: `cross_entropy` takes logits (unnormalized scores), not
probabilities. It evaluates a log-sum-exp, so the loss and its gradient
(softmax - onehot) / n stay finite and exact for saturated logits.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

LN_EPS = 1e-5                   # layer norm's variance offset


def _rows(a, lead=()):
    """(*lead, rows, last axis) view of `a`: tokens flattened for a GEMM,
    per expert when `lead` is the (E,) axis of stacked parameters."""
    return a.reshape(lead + (-1, a.shape[-1]))


def _times_transposed(g, w, lead):
    """g @ w.T for a (d, e) weight array `w`, per expert for a stacked
    (E, 1, d, e) one."""
    return np.matmul(g, w.reshape(lead + w.shape[-2:]).swapaxes(-1, -2))


def _weight_grad(a, g, w):
    """a.T @ g per expert, shaped as the weight `w`."""
    return np.matmul(a.swapaxes(-1, -2), g).reshape(w.data.shape)


def _bias_grad(g, p):
    """The column sums of `g`'s rows per expert, shaped as the vector `p`."""
    return g.sum(axis=-2).reshape(p.data.shape)


def _mean(a):
    """a.mean(axis=-1, keepdims=True) by np.mean's own arithmetic (a sum
    reduction, then a division by the count), without its Python-level
    dispatch, which costs more than the sum on these short rows."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def softmax_rows(y):
    """Softmax over the last axis of the array `y`, in place: shift by the
    row max, exp, divide by the row sum. Returns `y`."""
    y -= np.maximum.reduce(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y


def softmax_rows_backward(y, g):
    """The gradient through `y = softmax_rows(z)`, y * (g - sum(g * y))
    per row, written over `g`, the gradient with respect to `y`. Returns
    `g`."""
    g -= np.add.reduce(g * y, axis=-1, keepdims=True)
    g *= y
    return g


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of the true classes, as a scalar Tensor.

    `logits` are unnormalized scores, (k,) or (n, k); the loss is
    mean(logsumexp(z) - z[label]) and its gradient (softmax(z) - onehot) / n.
    `labels` is an int index or an int array matching the leading dimension.
    """
    z = logits.data.reshape(1, -1) if logits.data.ndim == 1 else logits.data
    lab = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, k = z.shape
    if lab.shape != (n,):
        raise ValueError(f"labels shape {lab.shape} does not match batch {n}")
    if np.any(lab < 0) or np.any(lab >= k):
        raise ValueError(f"label index out of range for {k} classes")
    rows = np.arange(n)
    shifted = z - z.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    total = expd.sum(axis=1, keepdims=True)
    loss = (np.log(total[:, 0]) - shifted[rows, lab]).mean()

    def backward(g):
        gz = expd / total
        gz[rows, lab] -= 1.0
        gz *= g / n
        return ((logits, gz.reshape(logits.shape)),)

    return Tensor._result(np.float64(loss), (logits,), backward)


def add_norm(x, sub, gamma, beta, mask=None, keep_prob=1.0):
    """Layer norm of x + dropout(sub) over the last axis, as one node: a
    sublayer's residual connection, gamma * (r - mean) / sqrt(var + LN_EPS)
    + beta for r = x + dropout(sub).

    `mask` is a boolean array of `sub`'s shape for inverted dropout with
    keep probability `keep_prob`; None means no dropout.
    """
    lead = gamma.data.shape[:-3]         # (E,) for (E, 1, 1, d), else ()
    if mask is None:
        r = x.data + sub.data
    else:
        scale = 1.0 / keep_prob
        r = sub.data * mask
        r *= scale
        r += x.data
    # r becomes x-hat in place
    r -= _mean(r)
    # the same reductions, in the same order, as np.var: bit-identical
    var = _mean(r * r)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    r *= inv
    out_data = gamma.data * r
    out_data += beta.data

    def backward(g):
        out = []
        if x.requires_grad or sub.requires_grad:
            dr = g * gamma.data
            t = dr * r
            m2 = _mean(t)
            dr -= _mean(dr)
            np.multiply(r, m2, out=t)
            dr -= t
            dr *= inv
            if x.requires_grad:
                out.append((x, dr.reshape(x.data.shape)))
            if sub.requires_grad:
                if mask is not None:
                    dr = dr * mask
                    dr *= scale
                out.append((sub, dr.reshape(sub.data.shape)))
        if gamma.requires_grad:
            out.append((gamma, _bias_grad(_rows(g * r, lead), gamma)))
        if beta.requires_grad:
            out.append((beta, _bias_grad(_rows(g, lead), beta)))
        return out

    return Tensor._result(out_data, (x, sub, gamma, beta), backward)


def _split_heads(a, n_heads, head_dim):
    """(parts, ..., heads, T, head_dim) view of a (..., T, width) array whose
    width holds one or more parts (q|k|v, or the context) of `n_heads`."""
    n = a.ndim - 2                       # leading axes: rows (and experts)
    parts = a.shape[-1] // (n_heads * head_dim)     # not -1: rows may be 0
    return a.reshape(a.shape[:-1] + (parts, n_heads, head_dim)).transpose(
        n + 1, *range(n), n + 2, n, n + 3)


def attention(x, q, k, v, o, n_heads):
    """Multi-head self-attention over (B, T, d_in) tokens, as one node.

    `q`, `k`, `v` and `o` are (weight, bias) Tensor pairs. The q|k|v
    projections run as one product over the weights concatenated per call;
    each head's scores are scaled by 1/sqrt(head_dim) and softmax-normalized
    over the keys; the merged heads go through the `o` projection.
    """
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = q, k, v, o
    inner = (x, wq, bq, wk, bk, wv, bv)
    lead = wq.data.shape[:-3]            # (E,) for (E, 1, d, e), else ()
    d = wq.data.shape[-1]
    head_dim = d // n_heads
    scale = 1.0 / math.sqrt(head_dim)
    w = np.concatenate((wq.data, wk.data, wv.data), axis=-1)
    qkv = np.matmul(x.data, w)
    qkv += np.concatenate((bq.data, bk.data, bv.data), axis=-1)
    qh, kh, vh = _split_heads(qkv, n_heads, head_dim)
    probs = np.matmul(qh, kh.swapaxes(-1, -2))
    probs *= scale
    softmax_rows(probs)
    ctx = np.empty(qkv.shape[:-1] + (d,))
    np.matmul(probs, vh, out=_split_heads(ctx, n_heads, head_dim)[0])
    out_data = np.matmul(ctx, wo.data)
    out_data += bo.data

    def backward(g):
        out = []
        g2 = _rows(g, lead)
        if wo.requires_grad:
            out.append((wo, _weight_grad(_rows(ctx, lead), g2, wo)))
        if bo.requires_grad:
            out.append((bo, _bias_grad(g2, bo)))
        if not any(p.requires_grad for p in inner):
            return out
        gctx = _times_transposed(g2, wo.data, lead).reshape(ctx.shape)
        gctx_h = _split_heads(gctx, n_heads, head_dim)[0]
        gqkv = np.empty(qkv.shape)
        gq, gk, gv = _split_heads(gqkv, n_heads, head_dim)
        np.matmul(probs.swapaxes(-1, -2), gctx_h, out=gv)
        gs = np.matmul(gctx_h, vh.swapaxes(-1, -2))     # d loss / d probs
        softmax_rows_backward(probs, gs)
        gs *= scale                                     # d loss / d q.k
        np.matmul(gs, kh, out=gq)
        np.matmul(gs.swapaxes(-1, -2), qh, out=gk)
        gqkv2 = _rows(gqkv, lead)
        if wq.requires_grad or wk.requires_grad or wv.requires_grad:
            # an x without the expert axis is shared: it broadcasts
            x2 = _rows(x.data, lead if x.data.ndim == qkv.ndim else ())
            gw = np.matmul(x2.swapaxes(-1, -2), gqkv2)
        if bq.requires_grad or bk.requires_grad or bv.requires_grad:
            gb = gqkv2.sum(axis=-2)
        for i, (wp, bp) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
            cols = slice(i * d, (i + 1) * d)
            if wp.requires_grad:
                out.append((wp, gw[..., cols].reshape(wp.data.shape)))
            if bp.requires_grad:
                out.append((bp, gb[..., cols].reshape(bp.data.shape)))
        if x.requires_grad:
            gx = _times_transposed(gqkv2, w, lead)
            out.append((x, gx.reshape(x.data.shape)))
        return out

    return Tensor._result(out_data, inner + (wo, bo), backward)


def feed_forward(x, w1, b1, w2, b2):
    """Position-wise linear -> ReLU -> linear over (B, T, d) tokens, as one
    node. A NaN pre-activation stays NaN and passes no gradient."""
    inner = (x, w1, b1)
    lead = w1.data.shape[:-3]            # (E,) for (E, 1, d, e), else ()
    hidden = np.matmul(x.data, w1.data)
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out_data = np.matmul(hidden, w2.data)
    out_data += b2.data

    def backward(g):
        out = []
        g2, h2 = _rows(g, lead), _rows(hidden, lead)
        if w2.requires_grad:
            out.append((w2, _weight_grad(h2, g2, w2)))
        if b2.requires_grad:
            out.append((b2, _bias_grad(g2, b2)))
        if not any(p.requires_grad for p in inner):
            return out
        gh = _times_transposed(g2, w2.data, lead)
        gh *= h2 > 0
        if w1.requires_grad:
            x2 = _rows(x.data, lead if x.data.ndim == hidden.ndim else ())
            out.append((w1, _weight_grad(x2, gh, w1)))
        if b1.requires_grad:
            out.append((b1, _bias_grad(gh, b1)))
        if x.requires_grad:
            gx = _times_transposed(gh, w1.data, lead)
            out.append((x, gx.reshape(x.data.shape)))
        return out

    return Tensor._result(out_data, inner + (w2, b2), backward)


def mixing_weights(x, w, b):
    """softmax(x @ w + b) over the last axis, as an array: a trainable
    gate's weights over its subset for input rows `x`, (912,) or (B, 912)."""
    y = np.matmul(x, w)
    y += b
    return softmax_rows(y)


def gate_mix(stacked, rows, fixed=None, x=None, linear=None):
    """The gated sum of expert rows `stacked[rows]`, as one node.

    `stacked` holds (n, 912) or (n, B, 912) expert representations and
    `rows` the gate's expert indices, in the order of its weights. The
    weights are `fixed`, one number per row, or, for the input Tensor `x`
    ((912,) or (B, 912)) and the gate's (w, b) Tensor pair `linear`,
    `mixing_weights(x, w, b)`. The weighted rows are summed in ascending
    expert order, bitwise a sum over all n rows with zero weights outside
    `rows`, through one product buffer, so no (n, B, 912) array is formed.
    The backward forms the gradients of `x`, `w` and `b` through the
    softmax, and of `stacked` (zero outside `rows`) when it requires grad.
    A non-finite weight is a ValueError.
    """
    data = stacked.data
    if linear is None:
        y = np.asarray(fixed, dtype=np.float64)
        parents = (stacked,)
    else:
        w, b = linear
        y = mixing_weights(x.data, w.data, b.data)
        parents = (stacked, x, w, b)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite mixing weights")
    out_data = tmp = None
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        weight = y[..., i, None]             # (1,) or (B, 1)
        if out_data is None:
            out_data = data[rows[i]] * weight
        else:
            if tmp is None:
                tmp = np.empty_like(out_data)
            np.multiply(data[rows[i]], weight, out=tmp)
            out_data += tmp

    def backward(g):
        out = []
        if stacked.requires_grad:
            gs = np.zeros(data.shape)
            for i, j in enumerate(rows):
                np.multiply(g, y[..., i, None], out=gs[j])
            out.append((stacked, gs))
        if linear is None or not any(p.requires_grad for p in parents[1:]):
            return out
        gy = np.empty(y.shape)               # d loss / d weight, per row
        for i, j in enumerate(rows):
            gy[..., i] = np.einsum("...f,...f->...", g, data[j])
        gz = softmax_rows_backward(y, gy)    # through the softmax
        if w.requires_grad:
            out.append((w, _rows(x.data).T @ _rows(gz)))
        if b.requires_grad:
            out.append((b, _rows(gz).sum(axis=0)))
        if x.requires_grad:
            out.append((x, gz @ w.data.T))
        return out

    return Tensor._result(out_data, parents, backward)
