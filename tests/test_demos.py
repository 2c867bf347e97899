"""Each demo script runs to completion (exit 0) in a fresh interpreter, where a
NumPy RuntimeWarning is an error, as it is under pytest."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(ROOT, "demos", name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, f"{name} exited {done.returncode}:\n{done.stderr[-2000:]}"
