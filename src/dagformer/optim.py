"""Adam with an L2 penalty folded into the gradient.

The penalty term lambda * theta is added to each parameter's gradient before
the moment updates, i.e. the penalty is part of the risk being minimized
rather than a decoupled weight-decay step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, is_number
from .tensor import Tensor


@dataclass
class AdamState:
    """Hyper-parameters, step count and moment estimates.

    The moments of all parameters sit in two flat arrays, in parameter-list
    order, so one step is a few whole-array operations whatever the number
    of parameter tensors; `sizes` records the entries of each parameter.
    """
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    l2_penalty: float = 0.0
    step: int = field(default=0, init=False)
    first_moment: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    second_moment: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    sizes: tuple = field(default=(), init=False)

    def __post_init__(self):
        for key in ("learning_rate", "beta1", "beta2", "epsilon", "l2_penalty"):
            if not is_number(getattr(self, key)):
                raise ConfigError(f"{key} must be a number, got {getattr(self, key)!r}")
        for key, ok, rule in (
                ("learning_rate", 0.0 < self.learning_rate < math.inf, "finite and > 0"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("epsilon", 0.0 < self.epsilon < math.inf, "finite and > 0"),
                ("l2_penalty", 0.0 <= self.l2_penalty < math.inf, "finite and >= 0")):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}")

    def _ensure_moments(self, params: list):
        if not self.sizes:
            self.sizes = tuple(p.data.size for p in params)
            self.first_moment = np.zeros(sum(self.sizes))
            self.second_moment = np.zeros(sum(self.sizes))
        if len(self.sizes) != len(params):
            raise ContractError(
                f"optimizer state tracks {len(self.sizes)} parameters, got {len(params)}")
        for i, (p, size) in enumerate(zip(params, self.sizes)):
            if p.data.size != size:
                raise ContractError(
                    f"parameter {i} has {p.data.size} entries; optimizer state tracks {size}")


def adam_step(params: list[Tensor], state: AdamState):
    """Apply one in-place Adam update to params using their .grad fields.

    Every check runs before any parameter or moment changes, so a rejected
    call leaves the parameters and the state as they were.
    """
    state._ensure_moments(params)
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"parameter {i} has no gradient; run backward first")
        if p.grad.shape != p.data.shape:
            raise ContractError(
                f"parameter {i} gradient shape {p.grad.shape} != value shape {p.data.shape}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    g = np.concatenate([p.grad.ravel() for p in params])
    if state.l2_penalty != 0.0:
        g = g + state.l2_penalty * np.concatenate([p.data.ravel() for p in params])
    m = state.first_moment
    v = state.second_moment
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    update = state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
    start = 0
    for p, size in zip(params, state.sizes):
        p.data -= update[start:start + size].reshape(p.data.shape)
        start += size


def zero_grads(params: list[Tensor]):
    for p in params:
        p.grad = None
