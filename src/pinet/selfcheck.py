"""Randomized consistency suites for the core mathematical claims.

Each suite draws randomized cases, measures the worst deviation from
the claimed identity, and reports pass/fail against a tolerance. The
suites back the `selfcheck` command and are reused by the test suite,
so the checks run identically in both places.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    LabeledGraph,
    make_batch,
    pad_graph,
    permute_graph,
    propagation_matrix,
    random_permutation,
)
from .model import PQ_NAMES, PiNetConfig, forward, init_params, loss_batch
from .tensor import Mat, Tape, backward, grad_check, matmul, propagate


@dataclass
class SuiteResult:
    name: str
    cases: int
    tol: float
    max_err: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def one_line(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.failures)} cases)"
        return (
            f"{self.name}: {self.cases} cases, max err {self.max_err:.3e} "
            f"(tol {self.tol:.0e}) -- {status}"
        )


def _random_adjacency(rng, n: int, min_degree: int = 0) -> np.ndarray:
    for _ in range(200):
        p_edge = rng.uniform(0.2, 0.7)
        upper = np.triu(rng.random((n, n)) < p_edge, k=1)
        a = (upper | upper.T).astype(float)
        if a.sum(axis=1).min() >= min_degree:
            return a
    raise AssertionError("could not sample an adjacency with the requested degrees")


def _random_graph(rng, n_lo=2, n_hi=10, d=1, classes=2, pad_max=0) -> LabeledGraph:
    n_real = int(rng.integers(n_lo, n_hi + 1))
    a = _random_adjacency(rng, n_real)
    x = rng.normal(size=(n_real, d))
    pad = int(rng.integers(0, pad_max + 1))
    n = n_real + pad
    adj = np.zeros((n, n))
    adj[:n_real, :n_real] = a
    feats = np.zeros((n, d))
    feats[:n_real] = x
    return LabeledGraph(n_real, Mat(adj), Mat(feats), int(rng.integers(0, classes)))


def _random_params(rng, d, classes, f0=7, f1=5, attention_axis="nodes"):
    cfg = PiNetConfig(
        d=d, C=classes, F0=f0, F1=f1,
        attention_axis=attention_axis, seed=int(rng.integers(0, 2**31)),
    )
    params = init_params(cfg)
    return params.replaced(
        {k: Mat.scalar(rng.uniform(0.0, 1.0)) for k in PQ_NAMES}
    )


def check_inner_product_reorder(cases: int = 100, seed: int = 0, tol: float = 1e-12) -> SuiteResult:
    """(PA)^T (PB) == A^T B for any permutation matrix P: permuting rows
    of both factors reorders the summands of each inner product."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("inner-product-reorder", cases, tol)
    for i in range(cases):
        n = int(rng.integers(2, 12))
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.normal(size=(n, m))
        b = rng.normal(size=(n, k))
        p = random_permutation(n, rng).matrix().data
        err = float(np.abs((p @ a).T @ (p @ b) - a.T @ b).max())
        res.max_err = max(res.max_err, err)
        if err > tol:
            res.failures.append(f"case {i}: n={n} err={err:.3e}")
    return res


def check_equivariance(cases: int = 100, seed: int = 0, tol: float = 1e-10) -> SuiteResult:
    """Relabelling commutes with the propagation matrix: building it
    from PAP^T equals conjugating the original by P."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("propagation-equivariance", cases, tol)
    for i in range(cases):
        n = int(rng.integers(2, 16))
        a = _random_adjacency(rng, n)
        p_val, q_val = rng.uniform(0, 1), rng.uniform(0, 1)
        p = random_permutation(n, rng).matrix().data
        lhs = propagation_matrix(Mat(p @ a @ p.T), p_val, q_val).data
        rhs = p @ propagation_matrix(Mat(a), p_val, q_val).data @ p.T
        err = float(np.abs(lhs - rhs).max())
        res.max_err = max(res.max_err, err)
        if err > tol:
            res.failures.append(f"case {i}: n={n} p={p_val:.3f} q={q_val:.3f} err={err:.3e}")
    return res


def check_corners(cases: int = 50, seed: int = 0, tol: float = 1e-12) -> SuiteResult:
    """The four (p,q) extremes reproduce their closed forms: A, A+I,
    and the symmetrically degree-normalised versions of both."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("propagation-corners", cases, tol)
    for i in range(cases):
        n = int(rng.integers(3, 16))
        a = _random_adjacency(rng, n, min_degree=1)
        eye = np.eye(n)
        dis = np.diag(a.sum(axis=1) ** -0.5)
        closed = {
            (1.0, 0.0): a,
            (1.0, 1.0): a + eye,
            (0.0, 0.0): dis @ a @ dis,
            (0.0, 1.0): dis @ (a + eye) @ dis,
        }
        for (pv, qv), want in closed.items():
            got = propagation_matrix(Mat(a), pv, qv).data
            err = float(np.abs(got - want).max())
            res.max_err = max(res.max_err, err)
            if err > tol:
                res.failures.append(f"case {i}: corner ({pv},{qv}) err={err:.3e}")
    return res


def _tape_probe(batch, h, p, q, g) -> dict[str, np.ndarray]:
    """`propagate`'s value and the tape gradients of sum(G * out) with
    respect to H, p and q. The scalar root is built from matmul alone:
    one G[:, k]^T out e_k probe per column, summed, which is exact
    because the gradients are linear in G."""
    tape = Tape()
    out = propagate(batch, tape.leaf(Mat(h), "h"), tape.leaf(Mat.scalar(p), "p"),
                    tape.leaf(Mat.scalar(q), "q"))
    got = {"out": out.data, "h": np.zeros_like(h), "p": np.zeros((1, 1)), "q": np.zeros((1, 1))}
    for k in range(h.shape[1]):
        e_k = np.zeros((h.shape[1], 1))
        e_k[k] = 1.0
        grads = backward(tape, matmul(matmul(Mat(g[:, k:k + 1].T), out), Mat(e_k)))
        for name, grad in grads.items():
            got[name] = got[name] + grad.data
    return got


def _closed_form(a, h, p, q, g) -> dict[str, np.ndarray]:
    """Reference At(p, q) @ H for one graph and the gradients of
    sum(G * At H) from closed forms: At is symmetric, so dH = At G;
    dAt/dq = S^2; dAt/dp = S'(A+qI)S + S(A+qI)S' with
    s' = -s^3 (1-deg) / 2, which is 0 where s = 0 by convention."""
    at = propagation_matrix(Mat(a), p, q).data
    deg = a.sum(axis=1)
    mixed = p + (1.0 - p) * deg
    s = np.zeros_like(mixed)
    s[mixed > 0] = mixed[mixed > 0] ** -0.5
    ds = -0.5 * s ** 3 * (1.0 - deg)
    core = a + q * np.eye(len(a))
    dat_dp = ds[:, None] * core * s[None, :] + s[:, None] * core * ds[None, :]
    return {
        "out": at @ h,
        "h": at @ g,
        "p": np.array([[(g * (dat_dp @ h)).sum()]]),
        "q": np.array([[(g * (s[:, None] ** 2 * h)).sum()]]),
    }


def check_fused_layer(cases: int = 60, seed: int = 0, tol: float = 1e-12) -> SuiteResult:
    """`propagate` on a stack of graphs equals the reference
    propagation_matrix(A, p, q) @ H per graph, and its tape gradients
    for H, p and q equal the closed-form derivatives of At(p, q). The
    stacks come from `make_batch`, mix real node counts, carry padded
    and isolated nodes, and cover the four (p, q) corners and interior
    points. Errors are relative to max(1, |reference|)."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("fused-propagation", cases, tol)
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for i in range(cases):
        b = int(rng.integers(1, 6))
        f = int(rng.integers(1, 5))
        sizes = rng.integers(1, 10, size=b)
        n = int(sizes.max() + rng.integers(0, 4))
        adj = np.zeros((b, n, n))
        for k, n_real in enumerate(sizes):
            a = _random_adjacency(rng, int(n_real))
            if n_real > 1 and rng.random() < 0.5:  # isolate one real node
                v = int(rng.integers(0, n_real))
                a[v, :] = a[:, v] = 0.0
            adj[k, :n_real, :n_real] = a
        h = np.zeros((b, n, f))
        for k, n_real in enumerate(sizes):
            h[k, :n_real] = rng.normal(size=(n_real, f))
        own = np.where(sizes < sizes.max(), sizes, n)  # make_batch pads the smaller graphs
        batch = make_batch([LabeledGraph(int(m), Mat(a[:k, :k]), Mat(x[:k]), 0)
                            for m, k, a, x in zip(sizes, own, adj, h)], 1)
        g = rng.normal(size=(b * n, f))
        pv, qv = corners[i] if i < len(corners) else rng.uniform(0.0, 1.0, size=2)
        if i >= len(corners) and i % 3 == 0:
            pv = 0.0  # p = 0 leaves isolated nodes with no scale at all
        pv, qv = float(pv), float(qv)

        got = _tape_probe(batch, batch.x.data, pv, qv, g)
        parts = [
            _closed_form(adj[k], h[k], pv, qv, g[k * n:(k + 1) * n])
            for k in range(b)
        ]
        want = {k: np.concatenate([one[k] for one in parts]) for k in ("out", "h")}
        want.update({k: sum(one[k] for one in parts) for k in ("p", "q")})
        err = float(max(
            (np.abs(got[k] - want[k]) / np.maximum(1.0, np.abs(want[k]))).max() for k in want
        ))
        res.max_err = max(res.max_err, err)
        if err > tol:
            res.failures.append(
                f"case {i}: B={b} N={n} sizes={sizes.tolist()} p={pv:.3f} q={qv:.3f} err={err:.3e}"
            )
    return res


def check_invariance(cases: int = 100, seed: int = 0, tol: float = 1e-9) -> SuiteResult:
    """Relabelling a graph's nodes must not move the classifier output."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("prediction-invariance", cases, tol)
    for i in range(cases):
        d = int(rng.integers(1, 4))
        classes = int(rng.integers(2, 5))
        axis = "nodes" if i % 2 == 0 else "features"
        g = _random_graph(rng, n_lo=2, n_hi=40, d=d, classes=classes, pad_max=4)
        params = _random_params(rng, d, classes, attention_axis=axis)
        perm = random_permutation(g.n, rng)
        out = forward(g, params).data
        out_p = forward(permute_graph(g, perm), params).data
        err = float(np.abs(out - out_p).max())
        res.max_err = max(res.max_err, err)
        if err > tol:
            res.failures.append(f"case {i}: n_real={g.n_real} axis={axis} err={err:.3e}")
    return res


def check_padding(cases: int = 50, seed: int = 0, tol: float = 1e-9, extra: int = 10) -> SuiteResult:
    """Zero-padding a graph further must not move the classifier output
    (this is what masking the attention softmax buys)."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("padding-invariance", cases, tol)
    for i in range(cases):
        d = int(rng.integers(1, 4))
        classes = int(rng.integers(2, 5))
        axis = "nodes" if i % 2 == 0 else "features"
        g = _random_graph(rng, n_lo=2, n_hi=12, d=d, classes=classes)
        params = _random_params(rng, d, classes, attention_axis=axis)
        out = forward(g, params).data
        out_pad = forward(pad_graph(g, g.n + extra), params).data
        err = float(np.abs(out - out_pad).max())
        res.max_err = max(res.max_err, err)
        if err > tol:
            res.failures.append(f"case {i}: n={g.n} axis={axis} err={err:.3e}")
    return res


def check_gradients(
    cases: int = 10, seed: int = 0, tol: float = 1e-4, step: float = 1e-5
) -> SuiteResult:
    """Tape gradients of the batch loss match central finite differences
    for every weight entry and every propagation scalar."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("gradient-check", cases, tol)
    for i in range(cases):
        d = int(rng.integers(1, 3))
        classes = int(rng.integers(2, 4))
        axis = "nodes" if i % 2 == 0 else "features"
        graphs = [
            _random_graph(rng, n_lo=3, n_hi=8, d=d, classes=classes)
            for _ in range(int(rng.integers(1, 4)))
        ]
        n_shared = max(g.n for g in graphs) + int(rng.integers(0, 3))
        batch = make_batch([pad_graph(g, n_shared) for g in graphs], classes)
        params = _random_params(rng, d, classes, f0=5, f1=4, attention_axis=axis)
        # interior pq values keep the loss smooth at the probe points
        params = params.replaced(
            {k: Mat.scalar(rng.uniform(0.2, 0.8)) for k in PQ_NAMES}
        )

        def f(leaves):
            return loss_batch(batch, params.replaced(dict(leaves)))

        report = grad_check(f, params.trainables(), step=step, tol=tol)
        res.max_err = max(res.max_err, report.max_rel_err)
        if not report.ok:
            worst = max(report.failures, key=lambda e: e.rel_err)
            res.failures.append(
                f"case {i}: {len(report.failures)} entries over tol, worst "
                f"{worst.name}[{worst.row},{worst.col}] rel_err={worst.rel_err:.3e}"
            )
    return res


def run_all(seed: int = 0, quick: bool = False) -> list[SuiteResult]:
    """Run every suite; `quick` shrinks case counts for smoke testing."""
    k = 0.2 if quick else 1.0

    def n(x):
        return max(2, int(x * k))

    return [
        check_inner_product_reorder(n(100), seed),
        check_equivariance(n(100), seed + 1),
        check_corners(n(50), seed + 2),
        check_fused_layer(n(60), seed + 6),
        check_invariance(n(100), seed + 3),
        check_padding(n(50), seed + 4),
        check_gradients(n(10), seed + 5),
    ]
