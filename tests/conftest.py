import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive; the child is then killed."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    if left:
        pytest.fail(f"the test left {len(left)} process(es) running: {left}")
