"""Accuracy summaries, a two-sample t-test, and CSV result emission.

The t-test p-value evaluates the Student-t CDF through the regularised
incomplete beta function, computed here with a modified-Lentz continued
fraction so the package has no numeric dependencies beyond numpy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataio import atomic_write
from .errors import DomainError


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    std: float  # sample standard deviation, n-1 denominator


def summarize(xs) -> SampleSummary:
    """Mean and sample deviation; `t_test_two_sample` reads its
    constant-sample rule from here."""
    xs = [float(x) for x in xs]
    if not xs:
        raise DomainError("summarize needs at least one value")
    if min(xs) == max(xs):
        # exact: the mean of n copies of x rounds away from x for some
        # floats, which would yield a spurious tiny deviation
        return SampleSummary(len(xs), xs[0], 0.0)
    mean = float(np.mean(xs))
    std = float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0
    return SampleSummary(len(xs), mean, std)


_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise DomainError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b), absolute error <= 1e-8."""
    if a <= 0 or b <= 0:
        raise DomainError("reg_inc_beta requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf2(t: float, dof: float) -> float:
    """Two-sided tail probability of Student's t with `dof` degrees."""
    if dof <= 0:
        raise DomainError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    return reg_inc_beta(dof / 2.0, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    dof: int


def t_test_two_sample(a, b) -> TTestResult:
    """Pooled-variance independent two-sample t-test, two-sided.

    Convention for degenerate inputs: if both samples are constant, t is
    0 and p is 1 when the constants agree, otherwise t is signed
    infinity and p is 0."""
    sa, sb = summarize(a), summarize(b)
    na, nb = sa.n, sb.n
    if na < 2 or nb < 2:
        raise DomainError("both samples need at least 2 values")
    dof = na + nb - 2
    ma, mb = sa.mean, sb.mean
    pooled = ((na - 1) * sa.std**2 + (nb - 1) * sb.std**2) / dof
    se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    if se == 0.0:
        if ma == mb:
            return TTestResult(0.0, 1.0, dof)
        return TTestResult(math.copysign(math.inf, ma - mb), 0.0, dof)
    t = (ma - mb) / se
    return TTestResult(t, student_t_sf2(t, dof), dof)


def write_results_csv(rows, path, columns=None):
    """Write dict rows as CSV with a header; floats at 6 decimal places.

    All rows must share one key set. `columns` fixes the header order
    and is required when `rows` is empty."""
    rows = list(rows)
    if columns is None:
        if not rows:
            raise DomainError("columns must be given for an empty row set")
        columns = list(rows[0].keys())
    columns = list(columns)
    for i, row in enumerate(rows):
        if set(row.keys()) != set(columns):
            raise DomainError(
                f"row {i} keys {sorted(row.keys())} != columns {sorted(columns)}"
            )

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.6f}"
        return str(v)

    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([fmt(row[c]) for c in columns])
