import numpy as np
import pytest

import _acceptance_log


@pytest.fixture(scope="session")
def spd1000(tmp_path_factory):
    """The layout the CLI benchmark writes: an n = 1000 SPD matrix, %.17g, spaces."""
    g = np.random.default_rng(20).standard_normal((1000, 1000))
    path = tmp_path_factory.mktemp("matrices") / "spd1000.txt"
    np.savetxt(path, g @ g.T, fmt="%.17g")
    return path


def pytest_terminal_summary(terminalreporter):
    if _acceptance_log.lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.lines:
            terminalreporter.write_line(line)
