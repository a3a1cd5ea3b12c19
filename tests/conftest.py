import numpy as np
import pytest

from twinchain.minimize import newton_minimize, twin_chain
from twinchain.wells import build_wells


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def minimizer100():
    """Relaxed interface state at n=100, shared across suites (one Newton run)."""
    report = newton_minimize(twin_chain(100, build_wells(np.sqrt(2.0))))
    assert report.converged
    return report.final_chain


@pytest.fixture(scope="session")
def minimizer400():
    """Relaxed fixed-tau interface state at n=400 (every stencil center flat)."""
    report = newton_minimize(twin_chain(400, build_wells(np.sqrt(2.0))))
    assert report.converged
    return report.final_chain
