"""Adam and plain gradient-descent parameter updates."""

from __future__ import annotations

import numpy as np


class AdamState:
    """Per-parameter first/second moments plus the shared step counter.

    `work` is one pair of flat scratch buffers shared by every parameter,
    grown to the largest parameter seen; it holds no state between steps.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.work = (np.empty(0), np.empty(0))

    def _work_pair(self, like):
        if self.work[0].size < like.size:
            self.work = (np.empty(like.size), np.empty(like.size))
        return tuple(w[:like.size].reshape(like.shape) for w in self.work)


def _adam_update(tensor_for, grads, state, lr):
    """One bias-corrected Adam step, in place.

    `m`, `v` and each parameter's array are updated in place; every
    temporary lives in the state's shared work pair. The operations are
    those of the textbook expression
    p - lr * (m / corr1) / (sqrt(v / corr2) + eps), in the same order, so
    the result is bitwise that of evaluating it out of place.
    """
    state.step += 1
    corr1 = 1.0 - state.beta1 ** state.step
    corr2 = 1.0 - state.beta2 ** state.step
    for name, g in grads.items():
        p = tensor_for(name)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        a, b = state._work_pair(p.data)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=a)
        m += a
        v *= state.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - state.beta2
        v += a
        np.divide(m, corr1, out=a)
        a *= lr
        np.divide(v, corr2, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        a /= b
        p.data -= a


def adam_step(params, grads, state, lr):
    """Canonical bias-corrected Adam update, applied in place.

    Parameters without a gradient entry are left untouched. Returns
    (params, state) for call-site chaining.
    """
    _adam_update(lambda name: params[name], grads, state, lr)
    return params, state


def sgd_step(params, grads, lr):
    """Vanilla gradient descent: p <- p - lr * g, in place."""
    for name, g in grads.items():
        p = params[name]
        p.data = p.data - lr * g
    return params


class MultiAdam:
    """One Adam optimizer spanning several named ParamSets."""

    def __init__(self, named_sets, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_sets = dict(named_sets)
        self.state = AdamState(beta1, beta2, eps)

    def apply(self, named_grads, lr):
        flat = {}
        for set_name, grads in named_grads.items():
            for pname, g in grads.items():
                flat[f"{set_name}/{pname}"] = g

        def tensor_for(key):
            set_name, pname = key.split("/", 1)
            return self.named_sets[set_name][pname]

        _adam_update(tensor_for, flat, self.state, lr)
