"""Randomized consistency suites for the core mathematical claims.

Each suite draws randomized cases from one seeded stream, measures each
case's deviation from the claimed identity, and reports the worst one
and pass/fail against a tolerance; `_suite` is the one loop that runs
them. The suites back the `selfcheck` command and are reused by the test
suite, so the checks run identically in both places.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    CORNERS,
    LabeledGraph,
    graph_from_edges,
    make_batch,
    pad_graph,
    permute_graph,
    propagation_matrix,
    random_permutation,
)
from .model import PQ_NAMES, PiNetConfig, forward, grads_batch, init_params, loss_batch
from .tensor import Mat, grad_check, propagate


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


def _suite(name: str, cases: int, seed: int, tol: float, case) -> SuiteResult:
    """Run `case(rng, i) -> (err, what)` for i < `cases`, every draw from
    one default_rng(`seed`) stream; keep the largest err, and report each
    case with err > `tol` as "case i: <what> err=<err>"."""
    rng = np.random.default_rng(seed)
    res = SuiteResult(name, cases, tol)
    for i in range(cases):
        err, what = case(rng, i)
        res.max_err = max(res.max_err, err)
        if err > tol:
            res.failures.append(f"case {i}: {what} err={err:.3e}")
    return res


def _random_adjacency(rng, n: int, min_degree: int = 0) -> np.ndarray:
    for _ in range(200):
        p_edge = rng.uniform(0.2, 0.7)
        upper = np.triu(rng.random((n, n)) < p_edge, k=1)
        a = (upper | upper.T).astype(float)
        if a.sum(axis=1).min() >= min_degree:
            return a
    raise AssertionError("could not sample an adjacency with the requested degrees")


def _graph(a: np.ndarray, x: np.ndarray, n: int, label: int = 0) -> LabeledGraph:
    """The graph with adjacency `a` and features `x` on its real nodes,
    padded to `n` nodes."""
    edges = np.argwhere(np.triu(a, k=1))
    return pad_graph(graph_from_edges(len(a), edges, label, Mat(x)), n)


def _random_graph(rng, n_lo=2, n_hi=10, d=1, classes=2, pad_max=0) -> LabeledGraph:
    n_real = int(rng.integers(n_lo, n_hi + 1))
    a = _random_adjacency(rng, n_real)
    x = rng.normal(size=(n_real, d))
    n = n_real + int(rng.integers(0, pad_max + 1))
    return _graph(a, x, n, int(rng.integers(0, classes)))


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
    def case(rng, i):
        n = int(rng.integers(2, 12))
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.normal(size=(n, m))
        b = rng.normal(size=(n, k))
        p = random_permutation(n, rng).matrix().data
        return float(np.abs((p @ a).T @ (p @ b) - a.T @ b).max()), f"n={n}"

    return _suite("inner-product-reorder", cases, seed, tol, case)


def check_equivariance(cases: int = 100, seed: int = 0, tol: float = 1e-10) -> SuiteResult:
    """Relabelling commutes with the propagation matrix: building it
    from PAP^T equals conjugating the original by P."""
    def case(rng, i):
        n = int(rng.integers(2, 16))
        a = _random_adjacency(rng, n)
        p_val, q_val = rng.uniform(0, 1), rng.uniform(0, 1)
        p = random_permutation(n, rng).matrix().data
        lhs = propagation_matrix(Mat(p @ a @ p.T), p_val, q_val).data
        rhs = p @ propagation_matrix(Mat(a), p_val, q_val).data @ p.T
        return float(np.abs(lhs - rhs).max()), f"n={n} p={p_val:.3f} q={q_val:.3f}"

    return _suite("propagation-equivariance", cases, seed, tol, case)


def check_corners(cases: int = 50, seed: int = 0, tol: float = 1e-12) -> SuiteResult:
    """The four (p,q) extremes reproduce their closed forms: A, A+I,
    and the symmetrically degree-normalised versions of both. A case
    reports its worst corner."""
    def case(rng, i):
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
        errs = {}
        for (pv, qv), want in closed.items():
            got = propagation_matrix(Mat(a), pv, qv).data
            errs[f"corner ({pv},{qv})"] = float(np.abs(got - want).max())
        worst = max(errs, key=errs.get)
        return errs[worst], worst

    return _suite("propagation-corners", cases, seed, tol, case)


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
    propagation_matrix(A, p, q) @ H per graph, and its vjp of G, the
    gradients of sum(G * out) for H, p and q, equals the closed-form
    derivatives of At(p, q). The stacks come from `make_batch`, mix real
    node counts, carry padded and isolated nodes, and cover the four
    (p, q) corners and interior points. Errors are relative to
    max(1, |reference|)."""
    def case(rng, i):
        b = int(rng.integers(1, 6))
        f = int(rng.integers(1, 5))
        sizes = rng.integers(1, 10, size=b)
        n = int(sizes.max() + rng.integers(0, 4))
        adjs = []
        for n_real in sizes:
            a = _random_adjacency(rng, int(n_real))
            if n_real > 1 and rng.random() < 0.5:  # isolate one real node
                v = int(rng.integers(0, n_real))
                a[v, :] = a[:, v] = 0.0
            adjs.append(a)
        graphs = [_graph(a, rng.normal(size=(len(a), f)), n) for a in adjs]
        (stack,) = make_batch(graphs, 1).stacks  # every graph padded to n: one size class
        g = rng.normal(size=(b * n, f))
        pv, qv = CORNERS[i] if i < len(CORNERS) else rng.uniform(0.0, 1.0, size=2)
        if i >= len(CORNERS) and i % 3 == 0:
            pv = 0.0  # p = 0 leaves isolated nodes with no scale at all
        pv, qv = float(pv), float(qv)

        out, vjp = propagate(stack, stack.x, pv, qv)
        got = dict(zip(("out", "h", "p", "q"), (out, *vjp(g, True))))
        parts = [
            _closed_form(gk.adjacency.data, gk.features.data, pv, qv, g[k * n:(k + 1) * n])
            for k, gk in enumerate(graphs)
        ]
        want = {k: np.concatenate([one[k] for one in parts]) for k in ("out", "h")}
        want.update({k: sum(one[k] for one in parts) for k in ("p", "q")})
        err = float(max(
            (np.abs(got[k] - want[k]) / np.maximum(1.0, np.abs(want[k]))).max() for k in want
        ))
        return err, f"B={b} N={n} sizes={sizes.tolist()} p={pv:.3f} q={qv:.3f}"

    return _suite("fused-propagation", cases, seed, tol, case)


def check_invariance(cases: int = 100, seed: int = 0, tol: float = 1e-9) -> SuiteResult:
    """Relabelling a graph's nodes must not move the classifier output."""
    def case(rng, i):
        d = int(rng.integers(1, 4))
        classes = int(rng.integers(2, 5))
        axis = "nodes" if i % 2 == 0 else "features"
        g = _random_graph(rng, n_lo=2, n_hi=40, d=d, classes=classes, pad_max=4)
        params = _random_params(rng, d, classes, attention_axis=axis)
        perm = random_permutation(g.n_real, rng)
        out = forward(g, params).data
        out_p = forward(permute_graph(g, perm), params).data
        return float(np.abs(out - out_p).max()), f"n_real={g.n_real} axis={axis}"

    return _suite("prediction-invariance", cases, seed, tol, case)


def check_padding(cases: int = 50, seed: int = 0, tol: float = 1e-9, extra: int = 10) -> SuiteResult:
    """Zero-padding a graph further must not move the classifier output
    (this is what masking the attention softmax buys)."""
    def case(rng, i):
        d = int(rng.integers(1, 4))
        classes = int(rng.integers(2, 5))
        axis = "nodes" if i % 2 == 0 else "features"
        g = _random_graph(rng, n_lo=2, n_hi=12, d=d, classes=classes)
        params = _random_params(rng, d, classes, attention_axis=axis)
        out = forward(g, params).data
        out_pad = forward(pad_graph(g, g.n + extra), params).data
        return float(np.abs(out - out_pad).max()), f"n={g.n} axis={axis}"

    return _suite("padding-invariance", cases, seed, tol, case)


def check_gradients(
    cases: int = 10, seed: int = 0, tol: float = 1e-4, step: float = 1e-5
) -> SuiteResult:
    """`grads_batch` gradients of the batch loss match central finite
    differences of `loss_batch` for every weight entry and every
    propagation scalar."""
    def case(rng, i):
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
        report = grad_check(lambda p: loss_batch(batch, params.replaced(p)).item(),
                            grads_batch(batch, params)[1], params.trainables(), step, tol)
        if report.ok:
            return report.max_rel_err, ""
        worst = max(report.failures, key=lambda e: e.rel_err)
        return report.max_rel_err, (f"{len(report.failures)} entries over tol, "
                                    f"worst {worst.name}[{worst.row},{worst.col}]")

    return _suite("gradient-check", cases, seed, tol, case)


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
