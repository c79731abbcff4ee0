import os
import sys

# single-threaded BLAS unless the caller sets a thread count: small scipy
# solves run far slower under a multithreaded BLAS on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pins)
import pytest

import hjlax as hj


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the acceptance verdicts even when every test passes
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "VERDICT_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.VERDICT_LINES:
                terminalreporter.write_line(line)
            break


@pytest.fixture(scope="session")
def free1():
    return hj.catalog("free", dim=1)


@pytest.fixture(scope="session")
def free2():
    return hj.catalog("free", dim=2)


@pytest.fixture(scope="session")
def pendulum():
    # L = v^2/2 + cos x
    return hj.catalog("mechanical", dim=1, potential="cos", coeff=-1.0)


@pytest.fixture(scope="session")
def double_well():
    # L = v^2/2 + (x^2 - 1)^2 / 4 (plateaued outside |x| in [2.5, 3.5])
    return hj.catalog("mechanical", dim=1, potential="double_well",
                      coeff=-1.0, shift=-0.25)


@pytest.fixture(scope="session")
def aniso2():
    return hj.catalog("anisotropic", dim=2, m0=1.0, m1=0.3)


@pytest.fixture(scope="session")
def lifted_free():
    return hj.discount_lift(hj.catalog("free", dim=1), lam=1.0, horizon=2.0)
