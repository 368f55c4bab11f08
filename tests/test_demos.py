import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, subprocess_env):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120, env=subprocess_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
