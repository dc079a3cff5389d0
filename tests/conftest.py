import volcur   # first, so it loads numpy and the volcur command's cache knows its BLAS setting
import numpy as np
import pytest

import _acceptance_log


@pytest.fixture(scope="session", autouse=True)
def no_input_cache(tmp_path_factory):
    """No input cache for the run, in place of the user's: XDG_CACHE_HOME is a new
    directory that holds a regular file where the volcur command would keep its own,
    so every command parses and eigensolves its input, whatever the tests before it
    read.  A child process inherits this through the environment; a test of the
    cache asks for `cache`."""
    base = tmp_path_factory.mktemp("xdg-cache")
    (base / "volcur").write_text("not a directory: no input cache\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(base))
        yield


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """A test's own empty input cache: the directory the volcur command keeps its entries in."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "volcur"


@pytest.fixture()
def entries(cache):
    """A count of `cache`'s entries, one *.npy file per input."""
    return lambda: len(list(cache.glob("*.npy")))


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
