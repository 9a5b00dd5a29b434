import os
import subprocess
import sys
from pathlib import Path

import pytest

import sasvkit


def _run_cli(*args) -> subprocess.CompletedProcess:
    src = str(Path(sasvkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "sasvkit.cli", *map(str, args)],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture
def run_cli():
    """Run the CLI in a fresh interpreter, so its stderr is the real one.

    In-process, ``cli.main`` logs through pytest's handlers, not stderr.
    """
    return _run_cli
