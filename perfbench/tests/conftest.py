import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.prepare()


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.RUN_DIR / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
