from sys import getrecursionlimit, setrecursionlimit

import pytest


@pytest.fixture
def recursion_limit_1000():
    """CPython's default recursion limit, whatever the runner set."""
    old = getrecursionlimit()
    setrecursionlimit(1000)
    yield
    setrecursionlimit(old)
