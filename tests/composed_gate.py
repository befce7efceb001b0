"""Reference gate mixing composed from primitive Tensor ops.

Test oracle for `flowmoe.fusion.gate_output`, which mixes every gate in one
`gate_mix` node. Here a one-expert fixed gate selects its expert's row; the
weights over all n experts of any other gate are uniform over its subset or
come from a softmax placed into its subset's columns by a constant 0/1
matmul, and the mix is a broadcast product summed over the expert axis,
with a graph node per step.
"""

import numpy as np

from flowmoe.nn import Tensor

from composed_ops import select, softmax, transpose, tsum


def composed_gate_weights(gate, x):
    """(n,) or (B, n) mixing-weight Tensor of `gate`, with a graph."""
    if gate.linear is None:
        delta = np.zeros(gate.n_experts)
        delta[list(gate.subset)] = 1.0 / len(gate.subset)
        return Tensor(delta)
    local = softmax(x @ gate.linear["w"] + gate.linear["b"])
    placement = np.eye(gate.n_experts)[list(gate.subset)]
    return local @ placement


def composed_gate_output(gate, stacked, x=None):
    """`gate_output` of `stacked` (n, 912) or (n, B, 912) expert rows."""
    if gate.linear is None and len(gate.subset) == 1:
        return select(stacked, gate.subset[0], axis=0)
    delta = composed_gate_weights(gate, x)
    if delta.data.ndim == 2:
        delta = transpose(delta, (1, 0))           # (B, n) -> (n, B)
    trailing = (1,) * (stacked.data.ndim - delta.data.ndim)
    return tsum(delta.reshape(delta.shape + trailing) * stacked, axis=0)
