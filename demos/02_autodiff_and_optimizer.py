"""The reverse-mode tape and the Adam optimizer on a toy problem.

Differentiates a small expression, checks one gradient against central
finite differences, then minimizes a quadratic bowl with Adam.
"""

import numpy as np

from dagformer import tensor as T
from dagformer.optim import AdamState, adam_step

# gradients of sum((w x - t)^2) by tape vs. by hand
x = T.constant([[1.0, 2.0], [3.0, 4.0]])
t = T.constant([[1.0], [0.0]])
w = T.parameter([[0.5], [-0.5]])
residual = T.matmul(x, w) - t
loss = T.sum_all(residual * residual)
T.backward(loss)
by_hand = 2.0 * x.data.T @ (x.data @ w.data - t.data)
print("tape gradient:", w.grad.ravel())
print("hand gradient:", by_hand.ravel())

# finite-difference check on a gnarlier composite
def f(v):
    h = T.softmax_lastdim(T.tensor(v))
    return float(T.mean_all(T.log(h + 1.0) * T.sigmoid(h)).data)

v = np.array([0.3, -1.2, 0.8])
param = T.parameter(v.copy())
h = T.softmax_lastdim(param)
T.backward(T.mean_all(T.log(h + 1.0) * T.sigmoid(h)))
eps = 1e-6
fd = np.array([(f(v + eps * e) - f(v - eps * e)) / (2 * eps) for e in np.eye(3)])
print("\nanalytic:", np.round(param.grad, 8))
print("finite differences:", np.round(fd, 8))
print("max abs deviation:", float(np.max(np.abs(param.grad - fd))))

# Adam walks a quadratic bowl to its minimum at (3, -1)
theta = T.parameter([0.0, 0.0])
state = AdamState(learning_rate=0.05)
target = np.array([3.0, -1.0])
for step in range(400):
    diff = theta - T.constant(target)
    loss = T.sum_all(diff * diff)
    theta.zero_grad()
    T.backward(loss)
    adam_step([theta], state)
print("\nAdam after 400 steps:", np.round(theta.data, 4), "target:", target)
