"""Walk through the tape autodiff engine on a few hand-sized examples.

Run: python demos/01_autodiff_engine.py
"""

import numpy as np

from stormkan import Tape, ops

# --- record a tiny computation -------------------------------------------
tape = Tape()
x = tape.leaf(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
w = tape.leaf(np.array([[1.0, 0.5], [-0.5, 1.5]]), requires_grad=True)

h = ops.silu(ops.matmul(x, w))
loss = ops.mean(ops.mul(h, h))
print("loss:", float(loss.data))

# --- reverse pass ---------------------------------------------------------
grads = tape.backprop(loss)
print("d loss / d x:\n", grads.wrt(x))
print("d loss / d w:\n", grads.wrt(w))

# --- agreement with central finite differences ---------------------------
def loss_at(x_arr):
    t = Tape()
    out = ops.silu(ops.matmul(t.constant(x_arr), t.constant(w.data)))
    return float(ops.mean(ops.mul(out, out)).data)

h_step = 1e-6
numeric = np.zeros_like(x.data)
for i in np.ndindex(*x.shape):
    bumped = x.data.copy()
    bumped[i] += h_step
    dipped = x.data.copy()
    dipped[i] -= h_step
    numeric[i] = (loss_at(bumped) - loss_at(dipped)) / (2 * h_step)
print("max |analytic - numeric|:", np.abs(grads.wrt(x) - numeric).max())

# --- convolution and its fused 2x2 max-pool, with an exact backward -------
tape = Tape()
img = tape.leaf(np.random.default_rng(0).uniform(0, 1, (1, 1, 8, 8)),
                requires_grad=True)
kernel = tape.leaf(np.full((1, 1, 3, 3), 1 / 9.0), requires_grad=True)
bias = tape.leaf(np.zeros(1), requires_grad=True)
pooled = ops.conv2d(img, kernel, bias, padding=1, pool=True)
# the scalar sum of the pooled map: its flattening times a ones column
flat = ops.reshape(pooled, (1, -1))
total = ops.matmul(flat, tape.constant(np.ones((flat.shape[1], 1))))
grads = tape.backprop(ops.reshape(total, ()))
print("image shape:", img.shape, "-> blurred and pooled:", pooled.shape)
print("gradient reached the image:", grads.wrt(img).any())
