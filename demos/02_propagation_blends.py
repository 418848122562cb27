# The (p, q) propagation family.
#
# Message passing multiplies node features by a propagation matrix built
# from the adjacency A. Two scalars control its shape:
#
#   q   blends self-loops in:   A + qI
#   p   blends normalisation out: (pI + (1-p)D)^(-1/2) on both sides
#
# The four corners of the unit square recover the classic choices. The
# model's `propagate` op differentiates through p and q, so they can be
# *learned* alongside the weights; `propagation_matrix` below builds the
# same operator explicitly, as plain numbers.

import numpy as np

from pinet import Mat, Permutation, graph_from_edges, permute_graph, propagation_matrix

# 1. A small asymmetric graph: a triangle with a pendant node.
g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
a = g.adjacency
deg = a.data.sum(axis=1)
print("degrees:", deg.astype(int).tolist())

# 2. The corners.
corners = {
    (1.0, 0.0): "adjacency            A",
    (1.0, 1.0): "with self-loops      A + I",
    (0.0, 0.0): "symmetric-normalised D^-1/2 A D^-1/2",
    (0.0, 1.0): "normalised + loops   D^-1/2 (A+I) D^-1/2",
}
d_isqrt = np.diag(1.0 / np.sqrt(deg))
closed = {
    (1.0, 0.0): a.data,
    (1.0, 1.0): a.data + np.eye(4),
    (0.0, 0.0): d_isqrt @ a.data @ d_isqrt,
    (0.0, 1.0): d_isqrt @ (a.data + np.eye(4)) @ d_isqrt,
}
# (the dense matrix products here group the scalings differently from
# the library's elementwise form, so compare with a tolerance)
for (p, q), label in corners.items():
    got = propagation_matrix(a, p, q).data
    err = np.abs(got - closed[(p, q)]).max()
    print(f"(p={p:.0f}, q={q:.0f}) {label:40s} max err {err:.1e}")

# 3. In between the matrix interpolates smoothly. Watch one entry move
#    as p slides from normalised (0) to raw (1) at q = 0.
print("\nentry [0, 1] as p goes 0 -> 1 (q = 0):")
for p in (0.0, 0.25, 0.5, 0.75, 1.0):
    m = propagation_matrix(a, p, 0.0)
    print(f"  p = {p:.2f}: {m.data[0, 1]:.4f}")

# 4. Relabelling the nodes permutes the propagation matrix the same way
#    (P M P^T), which is what makes the downstream model order-free.
perm = Permutation([2, 0, 3, 1])
ga = permute_graph(g, perm)
m = propagation_matrix(a, 0.3, 0.7)
ma = propagation_matrix(ga.adjacency, 0.3, 0.7)
pm = perm.matrix().data
print("\nequivariance max |P M P^T - M'| =", np.abs(pm @ m.data @ pm.T - ma.data).max())
