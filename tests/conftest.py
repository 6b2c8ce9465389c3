import multiprocessing
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_stray_workers():
    """Fail a test that leaves worker processes running, and stop them so the next test starts clean."""
    yield
    stray = multiprocessing.active_children()
    for process in stray:
        process.terminate()
        process.join(timeout=10)
    if stray:
        pytest.fail(f"test left {len(stray)} worker process(es) running")
