from .tensor import Tensor, dropout, relu
from .fused import (add_norm, attention, cross_entropy, feed_forward,
                    gate_mix, mixing_weights, softmax_rows,
                    softmax_rows_backward)
from .params import DropoutStream, ParamSet, seed_streams, training
from .model import (FF_DIM, HEAD_DIM, HIDDEN_DIM, INPUT_DIM, N_HEADS, N_TOKENS,
                    TOKEN_DIM, backward, encoder_forward, encoder_shapes,
                    gate_linear_shapes, head_forward, head_shapes,
                    init_encoder, init_gate_linear, init_head,
                    positional_encoding, stack_encoders)
from .optim import MultiAdam

__all__ = [
    "Tensor", "dropout", "relu",
    "add_norm", "attention", "cross_entropy", "feed_forward", "gate_mix",
    "mixing_weights", "softmax_rows", "softmax_rows_backward",
    "DropoutStream", "ParamSet",
    "seed_streams", "training", "backward", "encoder_forward",
    "head_forward", "encoder_shapes", "head_shapes", "gate_linear_shapes",
    "init_encoder", "init_gate_linear", "init_head",
    "positional_encoding", "stack_encoders", "MultiAdam",
    "INPUT_DIM", "N_TOKENS", "TOKEN_DIM", "N_HEADS", "HEAD_DIM", "FF_DIM",
    "HIDDEN_DIM",
]
