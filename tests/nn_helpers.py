"""Test-only helpers over `flowmoe.nn`: a forward's values, and a
ParamSet's values, flat vector and frozen state, and a ParamSet made
trainable for tests that run the sweep by hand."""

import numpy as np


def eval_forward(fn, *args, **kwargs):
    """fn(*args, **kwargs) as a plain array; a graph it recorded over
    trainable parameters is dropped with the Tensor."""
    return fn(*args, **kwargs).data


def state_dict(params):
    """{name: a copy of its values} for every parameter of a ParamSet."""
    return {name: t.data.copy() for name, t in params.items()}


def frozen(params):
    """True when no parameter of the ParamSet takes a gradient."""
    return all(not t.requires_grad for t in params.tensors())


def trainable(params):
    """The ParamSet, with every parameter taking a gradient from now on, for
    tests that sweep by hand; the library trains only in `nn.training`."""
    for t in params.tensors():
        t.requires_grad = True
    return params


def to_vector(params):
    """Every parameter of the ParamSet raveled into one array, in order."""
    if not params.tensors():
        return np.zeros(0)
    return np.concatenate([t.data.ravel() for t in params.tensors()])
