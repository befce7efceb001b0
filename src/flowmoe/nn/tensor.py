"""Minimal fp64 reverse-mode autodiff over numpy arrays.

The Tensor and its general ops, add, multiply, matmul, reshape, relu and
dropout, from which the heads, towers and the encoder's output are built.
The encoder sublayers, gate mixing and the loss are fused ops (`fused`).
Every tensor is float64; forward values are plain numpy arrays and the
graph is a DAG of backward closures walked in reverse topological order.

The ops take Tensors only (arithmetic also accepts plain numbers and
arrays as the other operand). There is no separate numpy path. An op's
result records its parents and backward exactly when a parent requires
grad, which a parameter does only inside `params.training`: an op over
parameters at rest and raw inputs records nothing.

Backward contract: a node's closure maps the gradient of its output to
(parent, gradient) pairs for exactly those parents whose `requires_grad`
is set when the sweep runs. A constant operand (raw input, frozen weight,
frozen expert representation) gets no pair, so its gradient is never
formed.
A leaf keeps the first array it receives as its `.grad` and adds later
arrivals out of place, so closures may hand one array to several parents.

Gradient lifetime: a 2-D leaf weight's gradient from a 2-D matmul is
written into a buffer the leaf owns and reuses, so a leaf `.grad` (and
every gradient `nn.model.backward` returns) is valid until the next sweep
that reaches that leaf; copy it to keep it longer. A leaf whose buffer is
already pending in the running sweep, or still held as its `.grad` (a
second sweep without `zero_grad`), gets a fresh array instead, so a weight
used twice still receives the sum. A caller may set `_grad_buf` to a
C-contiguous array of the leaf's shape to receive the gradient there.
"""

from __future__ import annotations

import numpy as np

from . import threads


def _reduce_to_shape(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_grad_buf", "_grad_pending")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self._grad_buf = None        # reused matmul weight-gradient array
        self._grad_pending = False   # _grad_buf handed out, not yet accumulated

    # -- graph plumbing -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def _accumulate(self, g):
        # out of place: `g` may be shared with another leaf
        self.grad = g if self.grad is None else self.grad + g
        self._grad_pending = False

    def _weight_grad(self, a, g):
        """a.T @ g for this 2-D leaf, written into its reused buffer unless
        that is pending in this sweep or held as `.grad` (module docstring)."""
        buf = self._grad_buf
        if self._grad_pending or (buf is not None and buf is self.grad):
            return threads.matmul(a.T, g)
        if buf is None:
            buf = self._grad_buf = np.empty(self.data.shape)
        self._grad_pending = True
        return threads.matmul(a.T, g, out=buf)

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor; accumulates into .grad."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no recorded graph")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient "
                                 "requires a scalar tensor")
            grad = np.ones_like(self.data)
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        running = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(order):
            g = running.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                continue
            for parent, pg in node._backward(g):
                if id(parent) in running:
                    # out of place: a closure may hand one array (or views
                    # of it) to several parents, so += would leak into them
                    running[id(parent)] = running[id(parent)] + pg
                else:
                    running[id(parent)] = np.asarray(pg, dtype=np.float64)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(g):
            return tuple((t, _reduce_to_shape(g, t.shape))
                         for t in (self, other) if t.requires_grad)

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(g):
            out = []
            if self.requires_grad:
                out.append((self, _reduce_to_shape(g * other.data, self.shape)))
            if other.requires_grad:
                out.append((other, _reduce_to_shape(g * self.data, other.shape)))
            return out

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        is2d = a.ndim == 2 == b.ndim
        out_data = threads.matmul(a, b) if is2d else a @ b

        def backward(g):
            out = []
            if self.requires_grad:
                ga = threads.matmul(g, b.T) if is2d else \
                    g @ np.swapaxes(b, -1, -2)
                out.append((self, _reduce_to_shape(ga, self.shape)))
            if other.requires_grad:
                if other._backward is None and is2d:
                    gb = other._weight_grad(a, g)
                else:
                    gb = _reduce_to_shape(np.swapaxes(a, -1, -2) @ g,
                                          other.shape)
                out.append((other, gb))
            return out

        return Tensor._result(out_data, (self, other), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            return ((self, g.reshape(old)),)

        return Tensor._result(out_data, (self,), backward)


# -- nonlinearities ---------------------------------------------------------

def relu(x):
    """max(x, 0); a NaN input stays NaN (and passes no gradient)."""

    def backward(g):
        return ((x, g * (x.data > 0)),)

    return Tensor._result(np.maximum(x.data, 0.0), (x,), backward)


def dropout(x, mask, keep_prob):
    """Inverted dropout with a precomputed boolean (or 0/1) mask."""
    scale = 1.0 / keep_prob

    def backward(g):
        return ((x, g * mask * scale),)

    return Tensor._result(x.data * mask * scale, (x,), backward)
