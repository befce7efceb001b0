"""General Tensor ops that only the tests' composed oracles and loss
builders use: the library's networks run as fused ops and need neither."""

import numpy as np

from flowmoe.nn import Tensor


def select(t, index, axis=0):
    """`t.data` at one integer `index` along `axis` (that axis dropped) as a
    graph node whose backward scatters into zeros of `t`'s shape."""
    sl = [slice(None)] * t.data.ndim
    sl[axis] = index
    sl = tuple(sl)

    def backward(g):
        full = np.zeros(t.shape)
        full[sl] = g
        return ((t, full),)

    return Tensor._result(t.data[sl], (t,), backward)


def transpose(t, axes):
    """`t.data.transpose(axes)` as a graph node."""
    inverse = np.argsort(axes)

    def backward(g):
        return ((t, g.transpose(inverse)),)

    return Tensor._result(t.data.transpose(axes), (t,), backward)


def tsum(t, axis=None, keepdims=False):
    """`t.data.sum(axis, keepdims=keepdims)` as a graph node."""
    shape = t.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((t, np.broadcast_to(g, shape).copy()),)

    return Tensor._result(t.data.sum(axis=axis, keepdims=keepdims), (t,),
                          backward)


def softmax(x, axis=-1):
    """Softmax over `axis` as a graph node, with its own arithmetic: the
    oracle for `flowmoe.nn.softmax_rows` and its backward."""
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)                  # one buffer: shift, exp, normalize
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((x, y * (g - dot)),)

    return Tensor._result(y, (x,), backward)


def rsqrt(t):
    """1 / sqrt(t) elementwise as a graph node."""
    y = 1.0 / np.sqrt(t.data)

    def backward(g):
        return ((t, g * -0.5 * y ** 3),)

    return Tensor._result(y, (t,), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """gamma * (x - mean) / sqrt(var + eps) + beta over the last axis, one
    node per step: the oracle for the normalization in `flowmoe.nn.add_norm`."""
    inv_d = 1.0 / x.shape[-1]
    centered = x + tsum(x, axis=-1, keepdims=True) * -inv_d
    var = tsum(centered * centered, axis=-1, keepdims=True) * inv_d
    return centered * rsqrt(var + eps) * gamma + beta
