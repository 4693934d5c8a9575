import numpy as np
import pytest

from jumplm import measure, simulate
from jumplm.errors import KernelUnavailable


@pytest.fixture(scope="session")
def ref_spec():
    """The alpha = 3/2, beta = 1 measure with C(3/2) normalization."""
    return measure.reference_spec()


@pytest.fixture(scope="session")
def tabulated_spec():
    """Tabulated pure-exponential density exp(-2 xi), a true martingale."""
    xs = np.geomspace(1e-3, 30.0, 60)
    pts = [(float(x), float(np.exp(-2.0 * x))) for x in xs]
    return measure.LevyMeasureSpec.tabulated(pts, left_exponent=0.0,
                                             tilt_rate=2.0)


@pytest.fixture(scope="session")
def kernel():
    """The compiled simulation kernel.  Every test that simulates asks for
    it, so a host where it cannot be built skips them with the reason."""
    try:
        return simulate._kernel()
    except KernelUnavailable as exc:
        pytest.skip(str(exc))


@pytest.fixture(scope="session")
def acceptance_log(request):
    lines = []
    request.config._acceptance_lines = lines
    return lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
