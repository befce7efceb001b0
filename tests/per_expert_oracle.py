"""Test oracle for `flowmoe.fusion.concat_representations`, which runs all
experts of a fused model as one stacked encoder pass: here each expert's
own encoder runs alone, in blocks of `EVAL_ROWS` rows, and the results are
stacked afterwards.
"""

import numpy as np

from flowmoe.expert import EVAL_ROWS
from flowmoe.nn import encoder_forward


def per_expert_representations(experts, x):
    """(n,) + x.shape: row j is expert j's eval-mode encoder output."""
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((len(experts),) + rows.shape)
    for j, expert in enumerate(experts):
        for start in range(0, rows.shape[0], EVAL_ROWS):
            block = slice(start, start + EVAL_ROWS)
            out[j, block] = encoder_forward(expert.encoder, rows[block]).data
    return out.reshape((len(experts),) + x.shape)
