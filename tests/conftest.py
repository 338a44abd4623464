import re

import numpy as np


def dense(op):
    """The dense matrix of a fracops.Toeplitz operator: entry (i, j) of
    the lower-triangular one is col[i - j], and its twin is the transpose."""
    k = np.arange(op.shape[0])
    lower = np.tril(op.col[np.abs(k[:, None] - k)])
    return lower.T if op.upper else lower


def pytest_runtest_logreport(report):
    # the acceptance tests print their own PASS lines; mirror failures so
    # every criterion has exactly one pass/fail line
    if report.when != "call" or not report.failed:
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        print(f"\nacceptance criterion {int(m.group(1)):2d}: FAIL")
