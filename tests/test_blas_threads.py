"""`import volcur` loads numpy's OpenBLAS with a short thread timeout.

The package init sets OPENBLAS_THREAD_TIMEOUT for the one `import numpy`
it runs when it is the first to load numpy, unless the user set the
variable, and then removes it.  These tests run fresh interpreters: in
this one numpy is loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
VAR = "OPENBLAS_THREAD_TIMEOUT"

# Runs in a fresh interpreter.  Records every write to os.environ made by
# `import volcur`, the variable's value while numpy's package is found, and
# whether os.environ ends as it began.
PROBE = """
import json, os, subprocess, sys
numpy_first = sys.argv[1] == "numpy-first"
if numpy_first:
    import numpy
assert ("numpy" in sys.modules) == numpy_first
writes, seen = [], []
class Recorder(type(os.environ)):
    def __setitem__(self, key, value):
        writes.append(["set", key, value])
        super().__setitem__(key, value)
    def __delitem__(self, key):
        writes.append(["del", key])
        super().__delitem__(key)
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("%s"))
sys.meta_path.insert(0, Spy())
os.environ.__class__ = Recorder
before = dict(os.environ)
import volcur
child = subprocess.run([sys.executable, "-c", "import os; print(os.environ.get('%s'))"],
                       capture_output=True, text=True).stdout.strip()
print(json.dumps({"writes": writes, "seen": seen, "unchanged": dict(os.environ) == before,
                  "child": child}))
""" % (VAR, VAR)


def environment(timeout):
    env = {k: v for k, v in os.environ.items() if k != VAR}
    if timeout is not None:
        env[VAR] = timeout
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run(args, timeout):
    proc = subprocess.run([sys.executable, *args], env=environment(timeout),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def probe(order, timeout):
    return json.loads(run(["-c", PROBE, order], timeout))


class TestEnvironmentHygiene:
    def test_timeout_is_set_while_numpy_loads_and_removed_after(self):
        got = probe("volcur-first", None)
        assert got["seen"] == ["20"]
        assert got["writes"] == [["set", VAR, "20"], ["del", VAR]]
        assert got["unchanged"] and got["child"] == "None"

    @pytest.mark.parametrize("users", ["28", "0", ""])
    def test_users_value_is_never_overwritten(self, users):
        got = probe("volcur-first", users)
        assert got["seen"] == [users]
        assert got["writes"] == []
        assert got["unchanged"] and got["child"] == users

    @pytest.mark.parametrize("users", [None, "28"])
    def test_nothing_happens_when_numpy_was_imported_first(self, users):
        got = probe("numpy-first", users)
        assert got["seen"] == [] and got["writes"] == []
        assert got["unchanged"] and got["child"] == str(users)


@pytest.fixture(scope="module")
def spd200(tmp_path_factory):
    g = np.random.default_rng(31).standard_normal((200, 200))
    path = tmp_path_factory.mktemp("blas") / "spd200.txt"
    np.savetxt(path, g @ g.T, fmt="%.17g")
    return path


@pytest.mark.parametrize("command", ["sample", "expected-error"])
def test_stdout_is_the_same_under_the_openblas_default(command, spd200):
    args = {
        "sample": ["sample", "--input", str(spd200), "--k", "5", "--draws", "20", "--seed", "7"],
        "expected-error": ["expected-error", "--spectrum", "pow:p=2,n=100000", "--k", "1..16"],
    }[command]
    ours = run(["-m", "volcur.cli", *args], None)
    default = run(["-m", "volcur.cli", *args], "28")    # OpenBLAS's own default
    assert ours and ours == default
