"""The selfcheck suites share one case loop: each case it runs reports
one line, and `check_gradients` takes each case's gradient once."""

import re

import pytest

from pinet import selfcheck

CHECKS = [
    selfcheck.check_inner_product_reorder,
    selfcheck.check_equivariance,
    selfcheck.check_corners,
    selfcheck.check_fused_layer,
    selfcheck.check_invariance,
    selfcheck.check_padding,
    selfcheck.check_gradients,
]


@pytest.mark.parametrize("check", CHECKS, ids=[c.__name__ for c in CHECKS])
def test_every_suite_reports_one_line_per_failing_case(check):
    # a negative tolerance fails every case, so each gets its line
    res = check(cases=3, tol=-1.0)
    assert not res.ok and res.cases == 3
    assert len(res.failures) == 3
    for i, line in enumerate(res.failures):
        assert re.fullmatch(rf"case {i}: .* err=\d\.\d{{3}}e[+-]\d+", line), line


def test_gradient_check_takes_each_gradient_once(monkeypatch):
    # the finite-difference probes evaluate the loss alone
    grads_batch, calls = selfcheck.grads_batch, []
    monkeypatch.setattr(selfcheck, "grads_batch", lambda *a: calls.append(a) or grads_batch(*a))
    res = selfcheck.check_gradients(cases=2)
    assert res.ok and len(calls) == 2
