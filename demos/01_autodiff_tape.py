# Reverse-mode differentiation on a tape, from scratch.
#
# The library trains its models with its own tape: every operation that
# touches a tracked matrix records how to push gradients back through
# itself. This script builds a tiny two-layer network by hand, runs one
# backward pass, and confirms the analytic gradients against central
# finite differences.

import numpy as np

from pinet import Mat, Tape, backward, grad_check
from pinet.tensor import matmul, relu, softmax_rows, cross_entropy

# 1. Leaves: a tape hands back tracked copies of the parameters.
rng = np.random.default_rng(0)
w0 = Mat(rng.normal(size=(3, 4)) * 0.5)
w1 = Mat(rng.normal(size=(4, 2)) * 0.5)
x = Mat([[1.0, 0.5, -0.25]])
target = Mat([[0.0, 1.0]])

tape = Tape()
tw0 = tape.leaf(w0, "w0")
tw1 = tape.leaf(w1, "w1")

# 2. Forward: relu MLP into a softmax cross-entropy.
hidden = relu(matmul(x, tw0))
probs = softmax_rows(matmul(hidden, tw1))
loss = cross_entropy(probs, target)
print(f"loss = {loss.item():.6f}")

# 3. Backward: one call resolves every recorded op in reverse order.
grads = backward(tape, loss)
for name, g in sorted(grads.items()):
    print(f"d loss / d {name}: shape {g.shape}, |g|_max = {np.abs(g.data).max():.6f}")

# 4. Check against central differences. grad_check re-runs the closure
#    with nudged entries, so the analytic and numeric paths are fully
#    independent of each other.
def closure(params):
    h = relu(matmul(x, params["w0"]))
    p = softmax_rows(matmul(h, params["w1"]))
    return cross_entropy(p, target)

report = grad_check(closure, {"w0": w0, "w1": w1}, step=1e-6, tol=1e-7)
print(f"grad_check: max relative error {report.max_rel_err:.2e} (tol {report.tol:g})")
assert report.ok

# 5. The tape also guards against misuse: reusing a leaf name, or asking
#    for gradients of a value from a different tape, raises immediately
#    instead of silently producing wrong numbers.
print("done")
