import os
from pathlib import Path

import pytest


@pytest.fixture
def subprocess_env():
    """Environment for ``python -m nccausal`` subprocesses: the checkout's
    ``src`` comes first on PYTHONPATH, so they import this copy of the
    package whether or not it is installed or on the caller's path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
