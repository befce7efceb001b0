"""General Tensor ops that only the tests' composed oracles and loss
builders use: the library's networks run as fused ops and need neither."""

import numpy as np

from flowmoe.nn import Tensor


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
