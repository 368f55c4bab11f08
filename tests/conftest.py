import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def subprocess_env():
    """The environment for a test's subprocess: this checkout's src comes first
    on PYTHONPATH, so a child interpreter imports the same epipool as the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env
