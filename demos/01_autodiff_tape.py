# The model differentiates itself.
#
# PiNet's gradient is a hand-written chain: each piece of the forward
# pass (the At(p, q) propagations, the products, relu, the attention
# pooling, the softmax and the cross-entropy) has its own vjp, and
# `grads_batch` runs the forward pass over a stacked batch and then those
# VJPs in reverse order. This script takes the gradient of one tiny
# gen-iso batch, prints what it says about the eight propagation scalars
# p and q, and confirms every entry against central finite differences.

import numpy as np

from pinet import GenParams, PiNetConfig, generate_iso_dataset, grad_check, init_params, make_batch
from pinet.model import PQ_NAMES, grads_batch, loss_batch

# 1. A tiny isomorphism-task batch: 3 classes of 8-node graphs, 2 copies each.
ds, _ = generate_iso_dataset(GenParams(n_nodes=8, classes=3, copies=2, seed=0))
batch = make_batch(ds.graphs, ds.class_count)
config = PiNetConfig(d=1, C=ds.class_count, F0=6, F1=4, seed=0)
params = init_params(config)  # learned mode: every p and q starts at 0.5

# 2. One forward pass, then its vjp: the loss and a gradient per trainable.
loss, grads = grads_batch(batch, params)
print(f"loss = {loss:.6f} over {len(batch)} graphs")
for name in PQ_NAMES:
    print(f"  d loss / d {name} = {grads[name].item():+.6f}")


# 3. Check the gradients of step 2 against central differences.
#    grad_check nudges every entry of every trainable and re-runs only the
#    forward pass for the loss, independently of the chain.
def loss_at(trainables):
    return loss_batch(batch, params.replaced(trainables)).item()


report = grad_check(loss_at, grads, params.trainables(), step=1e-6, tol=1e-6)
print(f"grad_check: {report.checked} entries, max relative error "
      f"{report.max_rel_err:.2e} (tol {report.tol:g})")
assert report.ok
assert np.isfinite(loss)
print("done")
