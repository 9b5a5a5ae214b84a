"""Neural-network substrate: autograd, layers, losses, optimizers."""

from repro.nn.tensor import (
    Tensor,
    concat,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)
from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    MLP,
    Dropout,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.optim import SGD, Adam, GradClipper, Optimizer, clip_grad_norm
from repro.nn.schedulers import ReduceLROnPlateau, StepLR
from repro.nn.losses import huber_loss, mae_loss, mse_loss
from repro.nn.segment import (
    reference_scatter,
    gather,
    segment_count,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn import init

__all__ = [
    "Tensor",
    "concat",
    "is_grad_enabled",
    "no_grad",
    "stack",
    "where",
    "Module",
    "Parameter",
    "MLP",
    "Dropout",
    "LeakyReLU",
    "Linear",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "SGD",
    "Adam",
    "GradClipper",
    "Optimizer",
    "clip_grad_norm",
    "reference_scatter",
    "ReduceLROnPlateau",
    "StepLR",
    "huber_loss",
    "mae_loss",
    "mse_loss",
    "gather",
    "segment_count",
    "segment_max",
    "segment_mean",
    "segment_softmax",
    "segment_sum",
    "init",
]
