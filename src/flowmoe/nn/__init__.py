from .tensor import (Tensor, cross_entropy, dropout, layer_norm, no_grad, relu,
                     softmax, stack)
from .params import DropoutStream, ParamSet, init_linear, seed_streams
from .model import (FF_DIM, HEAD_DIM, HIDDEN_DIM, INPUT_DIM, N_HEADS, N_TOKENS,
                    TOKEN_DIM, backward, encoder_forward, eval_forward,
                    head_forward, init_encoder, init_gate_linear, init_head,
                    positional_encoding)
from .optim import MultiAdam

__all__ = [
    "Tensor", "cross_entropy", "dropout", "layer_norm", "no_grad", "relu",
    "softmax", "stack", "DropoutStream", "ParamSet", "init_linear",
    "seed_streams", "backward", "encoder_forward", "eval_forward",
    "head_forward", "init_encoder", "init_gate_linear", "init_head",
    "positional_encoding", "MultiAdam",
    "INPUT_DIM", "N_TOKENS", "TOKEN_DIM", "N_HEADS", "HEAD_DIM", "FF_DIM",
    "HIDDEN_DIM",
]
