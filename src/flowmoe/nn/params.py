"""Named parameter sets, the training scope and deterministic randomness.

Parameters are frozen at rest: `training(*param_sets)` makes exactly the
given sets take a gradient, and only while its block runs.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .tensor import Tensor


class ParamSet:
    """Ordered, named parameter tensors of one network.

    Names are unique and shapes are fixed once added; insertion order is
    the serialization order.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name, data):
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(data, dtype=np.float64))
        self._tensors[name] = t
        return t

    def __getitem__(self, name) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name):
        return name in self._tensors

    def __len__(self):
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None


@contextlib.contextmanager
def training(*param_sets):
    """The tensors of `param_sets` take a gradient inside the block only."""
    tensors = [t for ps in param_sets for t in ps.tensors()]
    for t in tensors:
        t.requires_grad = True
    try:
        yield
    finally:
        for t in tensors:
            t.requires_grad = False


class DropoutStream:
    """Counter-based deterministic mask source (Philox).

    Masks come out in call order, so replaying the same call sequence from
    the same seed reproduces training bit-for-bit.
    """

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.Philox(key=int(seed)))

    def mask(self, shape, keep_prob):
        """Boolean keep-mask: each entry is kept with probability keep_prob."""
        return self._gen.random(shape) < keep_prob


def seed_streams(seed, n):
    """Split one seed into n independent child seeds; the seed must be a
    non-negative integer (ValueError)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]
